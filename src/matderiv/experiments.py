"""Convergence experiments and the demo/report runners behind the CLI.

Each runner builds seed-determined inputs, sweeps the step grid over the
competing schemes, and returns plain records; the CSV serialization keeps
rows sorted by (method, h descending) and formats floats with shortest
round-trip reprs, so equal seeds give equal bytes (timings are zeroed in
deterministic mode, being the one genuinely nondeterministic column).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .blocktri import (
    PathJet,
    frechet_via_blocktri,
    partial_via_blocktri,
    partial_via_frechet_sum,
)
from .cstep import (
    DEFAULT_H_FIRST,
    DEFAULT_H_SECOND,
    central_fd_1,
    central_fd_2_mixed,
    cs_frechet_1,
    cs_partial_2,
    hybrid_partial_2,
    regular_cs_1,
)
from .divdiff import dk_first_order, dk_general, dk_second_order, jet_to_eigenbasis
from .errors import DimensionMismatch, ReferenceValidationFailed
from .funcs import MatrixFunction, get_function
from .linalg import as_matrix, hermitian_eig, spectral_norm
from .multiindex import MultiIndex, alpha_to_dirs, as_index, iter_sub_indices, order, unit
from .qperturb import (
    density_deriv_1,
    density_deriv_2,
    density_matrix,
    eigvec_correction_1,
    eigvec_correction_2,
    step_function,
)

FIG1_GRID = (1e-1, 1e-13, 25)
FIG2_GRID = (1e-1, 1e-8, 15)

REFERENCE_GATE = 1e-6
REFERENCE_FD_STEP = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for every experiment runner."""

    seed: int = 0
    n: int = 3
    h_max: float = 1e-1
    h_min: float = 1e-13
    points: int = 25
    deterministic: bool = False
    out: str | None = None

    def __post_init__(self) -> None:
        if self.points < 2:
            raise DimensionMismatch(f"need at least 2 grid points, got {self.points}")
        if not (0.0 < self.h_min < self.h_max):
            raise DimensionMismatch(
                f"need 0 < h_min < h_max, got h_min={self.h_min}, h_max={self.h_max}"
            )
        if self.n < 1:
            raise DimensionMismatch(f"matrix dimension must be positive, got {self.n}")

    def grid(self) -> np.ndarray:
        return geometric_grid(self.h_max, self.h_min, self.points)


@dataclass(frozen=True)
class ConvergenceRecord:
    h: float
    method: str
    rel_error: float
    runtime_micros: float


@dataclass(frozen=True)
class CheckRecord:
    name: str
    value: float
    threshold: float
    passed: bool


def geometric_grid(h_max: float, h_min: float, points: int) -> np.ndarray:
    """Strictly decreasing geometric grid from h_max down to h_min."""
    if not (0.0 < h_min < h_max) or points < 2:
        raise DimensionMismatch("grid needs 0 < h_min < h_max and points >= 2")
    return np.geomspace(h_max, h_min, points)


def rel_error(x, ref) -> float:
    """Spectral-norm relative error of x against a nonzero reference."""
    x = np.asarray(x, dtype=np.complex128)
    ref = np.asarray(ref, dtype=np.complex128)
    denom = spectral_norm(ref)
    if denom == 0.0:
        raise DimensionMismatch("reference matrix is zero; relative error undefined")
    return spectral_norm(x - ref) / denom


def fit_order(
    records: Iterable[ConvergenceRecord],
    method: str,
    h_lo: float = 1e-4,
    h_hi: float = 1e-1,
) -> float:
    """Least-squares slope of log10(error) vs log10(h) on a window.

    The window keeps the fit on the truncation-dominated branch, away from
    the rounding floor at small h.
    """
    pts = [
        (r.h, r.rel_error)
        for r in records
        if r.method == method and h_lo <= r.h <= h_hi and r.rel_error > 0.0
    ]
    if len(pts) < 2:
        raise DimensionMismatch(f"not enough points to fit an order for {method!r}")
    hs = np.log10([p[0] for p in pts])
    es = np.log10([p[1] for p in pts])
    slope, _ = np.polyfit(hs, es, 1)
    return float(slope)


def random_complex_matrix(
    rng: np.random.Generator, n: int, lo: float = -0.5, hi: float = 0.5
) -> np.ndarray:
    """Dense matrix with independent uniform real and imaginary parts."""
    re = rng.uniform(lo, hi, size=(n, n))
    im = rng.uniform(lo, hi, size=(n, n))
    return re + 1j * im


def random_hermitian(
    rng: np.random.Generator, n: int, lo: float = -0.5, hi: float = 0.5
) -> np.ndarray:
    m = random_complex_matrix(rng, n, lo, hi)
    return 0.5 * (m + m.conj().T)


def _timed(fn: Callable[[], np.ndarray], deterministic: bool) -> tuple[np.ndarray, float]:
    t0 = time.perf_counter_ns()
    val = fn()
    micros = (time.perf_counter_ns() - t0) / 1000.0
    return val, 0.0 if deterministic else micros


def records_to_csv(records: Sequence[ConvergenceRecord]) -> str:
    lines = ["h,method,rel_error,runtime_micros"]
    for r in sorted(records, key=lambda r: (r.method, -r.h)):
        lines.append(
            f"{repr(float(r.h))},{r.method},{repr(float(r.rel_error))},{repr(float(r.runtime_micros))}"
        )
    return "\n".join(lines) + "\n"


def checks_to_csv(checks: Sequence[CheckRecord]) -> str:
    lines = ["check,value,threshold,status"]
    for c in checks:
        status = "pass" if c.passed else "fail"
        lines.append(f"{c.name},{repr(float(c.value))},{repr(float(c.threshold))},{status}")
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text)


# --------------------------------------------------------------------------
# first-derivative scalar comparison (cosine through the exponential)

@dataclass(frozen=True)
class Fig1Result:
    records: list[ConvergenceRecord]
    reference: np.ndarray
    a: np.ndarray
    e: np.ndarray
    flags: dict[str, str]


def run_fig1(config: ExperimentConfig, variant: str) -> Fig1Result:
    """First-derivative shoot-out on scalars: four routes against -sin(a)*e.

    ``variant`` is "real" (a = e = 1) or "complex" (random scalars with
    uniform [0, 1] real and imaginary parts). The regular complex step is
    exact-in-principle only for real data; on the complex variant it is
    evaluated literally anyway and flagged, to document the failure mode.
    """
    if variant not in ("real", "complex"):
        raise DimensionMismatch(f"unknown fig1 variant {variant!r}")
    rng = np.random.default_rng(config.seed)
    if variant == "real":
        a = np.array([[1.0 + 0.0j]])
        e = np.array([[1.0 + 0.0j]])
    else:
        vals = rng.uniform(0.0, 1.0, size=4)
        a = np.array([[vals[0] + 1j * vals[1]]])
        e = np.array([[vals[2] + 1j * vals[3]]])
    f = get_function("cos")
    reference = -np.sin(a[0, 0]) * e
    flags: dict[str, str] = {}
    records: list[ConvergenceRecord] = []

    def regular(h: float) -> np.ndarray:
        if variant == "real":
            return regular_cs_1(f, a, e, h)
        # shares the data's own imaginary unit, so this is wrong by design
        return np.imag(f(a + 1j * h * e)) / h

    if variant == "complex":
        flags["regular_cs"] = "invalid for complex input; recorded literally"

    methods: dict[str, Callable[[float], np.ndarray]] = {
        "central_fd": lambda h: central_fd_1(f, a, e, h),
        "regular_cs": regular,
        "block_cs": lambda h: cs_frechet_1(f, a, e, h),
        "blocktri_exact": lambda h: frechet_via_blocktri(f, a, [h * e]) / h,
    }
    for name, fn in methods.items():
        for h in config.grid():
            val, micros = _timed(lambda: fn(float(h)), config.deterministic)
            records.append(
                ConvergenceRecord(
                    h=float(h),
                    method=name,
                    rel_error=rel_error(val, reference),
                    runtime_micros=micros,
                )
            )
    return Fig1Result(records=records, reference=reference, a=a, e=e, flags=flags)


# --------------------------------------------------------------------------
# second-derivative convergence on a random complex jet

@dataclass(frozen=True)
class Fig2Result:
    records: list[ConvergenceRecord]
    reference: np.ndarray
    reference_agreement: float
    orders: dict[str, float]


def run_fig2(config: ExperimentConfig) -> Fig2Result:
    """Mixed second derivative of cos along a random complex two-variable jet.

    The reference is the exact block route, cross-validated against a
    Richardson-extrapolated central difference before the sweep; the sweep
    then records the stencil, the two-level block step, the hybrid scheme,
    and the block route itself re-evaluated with scaled jets (flat line).
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    a0 = random_complex_matrix(rng, n)
    a_b = random_complex_matrix(rng, n)
    a_g = random_complex_matrix(rng, n)
    a_x = random_complex_matrix(rng, n)
    alpha = (1, 1)
    jet = PathJet(
        terms={(0, 0): a0, (1, 0): a_b, (0, 1): a_g, (1, 1): a_x}, order=2
    )
    f = get_function("cos")
    reference = partial_via_blocktri(f, jet, alpha)

    hr = REFERENCE_FD_STEP
    fd_big = central_fd_2_mixed(f, jet, hr, alpha)
    fd_small = central_fd_2_mixed(f, jet, hr / 2.0, alpha)
    richardson = (4.0 * fd_small - fd_big) / 3.0
    agreement = rel_error(richardson, reference)
    if agreement > REFERENCE_GATE:
        raise ReferenceValidationFailed(
            f"exact route and extrapolated difference disagree at {agreement:.3e} "
            f"(gate {REFERENCE_GATE:.0e})"
        )

    def scaled_blocktri(h: float) -> np.ndarray:
        scaled = PathJet(
            terms={
                (0, 0): a0,
                (1, 0): h * a_b,
                (0, 1): h * a_g,
                (1, 1): h * h * a_x,
            },
            order=2,
        )
        return partial_via_blocktri(f, scaled, alpha) / (h * h)

    methods: dict[str, Callable[[float], np.ndarray]] = {
        "central_fd": lambda h: central_fd_2_mixed(f, jet, h, alpha),
        "block_cs": lambda h: cs_partial_2(f, jet, alpha, h),
        "hybrid": lambda h: hybrid_partial_2(f, jet, alpha, h),
        "blocktri_exact": scaled_blocktri,
    }
    records: list[ConvergenceRecord] = []
    for name, fn in methods.items():
        for h in config.grid():
            val, micros = _timed(lambda: fn(float(h)), config.deterministic)
            records.append(
                ConvergenceRecord(
                    h=float(h),
                    method=name,
                    rel_error=rel_error(val, reference),
                    runtime_micros=micros,
                )
            )
    orders = {
        "block_cs": fit_order(records, "block_cs"),
        "hybrid": fit_order(records, "hybrid"),
    }
    return Fig2Result(
        records=records,
        reference=reference,
        reference_agreement=agreement,
        orders=orders,
    )


# --------------------------------------------------------------------------
# density matrix and ground-state response demo

@dataclass(frozen=True)
class DensityDemoResult:
    checks: list[CheckRecord]
    mu: float
    n_occ: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _widest_gap_mu(eigenvalues: np.ndarray) -> float:
    gaps = np.diff(eigenvalues)
    k = int(np.argmax(gaps))
    return float(0.5 * (eigenvalues[k] + eigenvalues[k + 1]))


def _density_at(h_mat: np.ndarray, mu: float) -> np.ndarray:
    return density_matrix(hermitian_eig(h_mat), mu)


def _density_fd_1(h0, h_dir, mu: float, eps: float) -> np.ndarray:
    # Richardson pair (eps, 2 eps): the wider stencil cancels the h^2 term
    # without dividing by a smaller step, so rounding noise stays at the
    # eps level instead of four times it.
    def central(e: float) -> np.ndarray:
        return (_density_at(h0 + e * h_dir, mu) - _density_at(h0 - e * h_dir, mu)) / (2.0 * e)

    return (4.0 * central(eps) - central(2.0 * eps)) / 3.0


def _density_fd_2(h0, h_b, h_g, h_x, mu: float, eps: float) -> np.ndarray:
    def stencil(e: float) -> np.ndarray:
        e2 = e * e
        pp = _density_at(h0 + e * h_b + e * h_g + e2 * h_x, mu)
        pm = _density_at(h0 + e * h_b - e * h_g - e2 * h_x, mu)
        mp = _density_at(h0 - e * h_b + e * h_g - e2 * h_x, mu)
        mm = _density_at(h0 - e * h_b - e * h_g + e2 * h_x, mu)
        return (pp - pm - mp + mm) / (4.0 * e2)

    return (4.0 * stencil(eps) - stencil(2.0 * eps)) / 3.0


def _ground_projection(h_mat: np.ndarray, q0: np.ndarray) -> np.ndarray:
    d = hermitian_eig(h_mat)
    v = d.vectors[:, 0]
    return v * (v.conj() @ q0)


def run_density_demo(config: ExperimentConfig, mu: float | None = None) -> DensityDemoResult:
    """Exercise the density and ground-state derivatives on a random pencil.

    Produces residuals for the projector-derivative identities, agreement
    between the closed-form and generic spectral routes, and agreement with
    plain recomputation-based difference oracles.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    h0 = random_hermitian(rng, n)
    h_b = random_hermitian(rng, n)
    h_g = random_hermitian(rng, n)
    h_x = random_hermitian(rng, n)
    d = hermitian_eig(h0)
    if mu is None:
        mu = _widest_gap_mu(d.eigenvalues)
    step = step_function(mu)

    p0 = density_matrix(d, mu)
    p1_b = density_deriv_1(d, h_b, mu)
    p1_g = density_deriv_1(d, h_g, mu)
    p2 = density_deriv_2(d, h_b, h_g, h_x, mu)

    u_b = d.to_eigenbasis(h_b)
    u_g = d.to_eigenbasis(h_g)
    u_x = d.to_eigenbasis(h_x)
    p1_dk = dk_first_order(step, d, u_b)
    p2_dk = dk_second_order(step, d, u_b, u_g, u_x)

    eps = 1e-5
    p1_fd = _density_fd_1(h0, h_b, mu, eps)
    p2_fd = _density_fd_2(h0, h_b, h_g, h_x, mu, 1e-4)

    h1 = h_b
    q1 = eigvec_correction_1(d, h1)
    q2 = eigvec_correction_2(d, h1)
    q0 = d.vectors[:, 0]
    eps_v = 3e-3

    def proj(e: float) -> np.ndarray:
        return _ground_projection(h0 + e * h1, q0)

    def q1_central(e: float) -> np.ndarray:
        return (proj(e) - proj(-e)) / (2.0 * e)

    def q2_central(e: float) -> np.ndarray:
        return (proj(e) - 2.0 * proj(0.0) + proj(-e)) / (e * e)

    q1_fd = (4.0 * q1_central(eps_v / 2.0) - q1_central(eps_v)) / 3.0
    q2_fd = (4.0 * q2_central(eps_v / 2.0) - q2_central(eps_v)) / 3.0

    scale1 = spectral_norm(p1_b)
    checks = [
        CheckRecord(
            "p1_hermitian",
            spectral_norm(p1_b - p1_b.conj().T) / max(scale1, 1e-300),
            1e-11,
            False,
        ),
        CheckRecord(
            "p1_commutation",
            rel_error(p0 @ p1_b + p1_b @ p0, p1_b),
            1e-9,
            False,
        ),
        CheckRecord(
            "p2_commutation",
            rel_error(p0 @ p2 + p2 @ p0 + p1_b @ p1_g + p1_g @ p1_b, p2),
            1e-9,
            False,
        ),
        CheckRecord("p1_vs_dk", rel_error(p1_b, p1_dk), 1e-10, False),
        CheckRecord("p2_vs_dk", rel_error(p2, p2_dk), 1e-10, False),
        CheckRecord("p1_vs_fd", rel_error(p1_b, p1_fd), 1e-5, False),
        CheckRecord("p2_vs_fd", rel_error(p2, p2_fd), 1e-5, False),
        CheckRecord("q1_orthogonal", float(abs(q0.conj() @ q1)), 1e-10, False),
        CheckRecord("q1_vs_fd", float(np.linalg.norm(q1 - q1_fd)), 1e-6, False),
        CheckRecord("q2_vs_fd", float(np.linalg.norm(q2 - q2_fd)), 1e-4, False),
    ]
    checks = [
        CheckRecord(c.name, c.value, c.threshold, c.value <= c.threshold) for c in checks
    ]
    n_occ = int(np.sum(d.eigenvalues < mu))
    return DensityDemoResult(checks=checks, mu=float(mu), n_occ=n_occ)


# --------------------------------------------------------------------------
# custom jet evaluation across user-selected routes

CUSTOM_ROUTES = ("blocktri", "frechet_sum", "dk", "cs", "hybrid", "fd")


@dataclass(frozen=True)
class CustomResult:
    results: dict[str, np.ndarray]
    comparisons: list[tuple[str, str, float]]

    @property
    def primary(self) -> np.ndarray:
        return next(iter(self.results.values()))


def _custom_step(route: str, alpha: MultiIndex, h: float | None) -> float:
    if h is not None:
        return h
    return DEFAULT_H_FIRST if order(alpha) == 1 else DEFAULT_H_SECOND


def compute_route(
    route: str,
    f: MatrixFunction,
    jet: PathJet,
    alpha,
    h: float | None = None,
) -> np.ndarray:
    """Evaluate one derivative route on a jet.

    The stepped routes (cs, hybrid, fd) support |alpha| in {1, 2}; the
    exact and spectral routes take any order within the block limit.
    """
    alpha = as_index(alpha)
    m = order(alpha)
    if route == "blocktri":
        return partial_via_blocktri(f, jet, alpha)
    if route == "frechet_sum":
        return partial_via_frechet_sum(f, jet, alpha)
    if route == "dk":
        d = hermitian_eig(jet.base)
        # every nonzero t <= alpha is a part of some splitting of alpha
        needed = {t: jet.term(t) for t in iter_sub_indices(alpha) if any(t)}
        return dk_general(f.scalar, d, jet_to_eigenbasis(d, needed), alpha)
    if route == "cs":
        hs = _custom_step(route, alpha, h)
        if m == 1:
            (v,) = alpha_to_dirs(alpha)
            return cs_frechet_1(f, jet.base, jet.term(unit(jet.nvars, v)), hs)
        if m == 2:
            return cs_partial_2(f, jet, alpha, hs)
        raise DimensionMismatch(f"route cs supports |alpha| <= 2, got {alpha}")
    if route == "hybrid":
        if m != 2:
            raise DimensionMismatch(f"route hybrid needs |alpha| = 2, got {alpha}")
        return hybrid_partial_2(f, jet, alpha, _custom_step(route, alpha, h))
    if route == "fd":
        hs = h if h is not None else 1e-5
        if m == 1:
            (v,) = alpha_to_dirs(alpha)
            return central_fd_1(f, jet.base, jet.term(unit(jet.nvars, v)), hs)
        if m == 2:
            return central_fd_2_mixed(f, jet, hs, alpha)
        raise DimensionMismatch(f"route fd supports |alpha| <= 2, got {alpha}")
    raise DimensionMismatch(f"unknown route {route!r}; choices: {CUSTOM_ROUTES}")


def run_custom(
    terms: Mapping[MultiIndex, np.ndarray],
    function_name: str,
    routes: Sequence[str],
    alpha,
    h: float | None = None,
) -> CustomResult:
    """Compute a requested derivative on a user jet by one or more routes."""
    alpha = as_index(alpha)
    if not routes:
        raise DimensionMismatch("need at least one route")
    f = get_function(function_name)
    keys = [as_index(k) for k in terms]
    jet_order = max([order(alpha)] + [order(k) for k in keys])
    jet = PathJet(
        terms={k: as_matrix(v) for k, v in terms.items()}, order=max(jet_order, 1)
    )
    results: dict[str, np.ndarray] = {}
    for route in routes:
        results[route] = compute_route(route, f, jet, alpha, h)
    comparisons: list[tuple[str, str, float]] = []
    names = list(results)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            comparisons.append(
                (names[i], names[j], rel_error(results[names[j]], results[names[i]]))
            )
    return CustomResult(results=results, comparisons=comparisons)
