"""Seeded inputs, ops and output checks for the four benchmark workloads.

An op is one derivative request, one density-response set, or one CLI
invocation. Every op is checked against a reference from ``oracle`` (or,
for ``dk``, from the independent ``blocktri`` route) computed in a
separate process before the run, or, where no oracle exists, against
structural and repeatability rules that the report names.

Tolerance classes follow tests/test_acceptance.py: 1e-9 for exact routes
and 1e-6 for the block-step routes (criterion 01). Plain central
differences (``fd``) get the acceptance suite's difference-oracle bound,
1e-5 (criterion 09, ``p1_vs_fd``), stated here as its own class.

Inputs that hit known defects stay in the pools on purpose; their ops
count as failed, and ``Item.expect`` names the defect so the report can
give each defect's failure share.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

EXACT_TOL = 1e-9
STEP_TOL = 1e-6
FD_TOL = 1e-5
TOL = {"blocktri": EXACT_TOL, "frechet_sum": EXACT_TOL,
       "cs": STEP_TOL, "hybrid": STEP_TOL, "fd": FD_TOL}

# Steps the CLI's custom command uses by default for the stepped routes.
H_FIRST = 1e-8
H_SECOND = 1e-5
H_FD = 1e-5

# Known defects at the seed, by the failure each one produces.
NEAR_CONFLUENT = "near-confluent"   # dk misses 1e-9 on clustered spectra
MULTILINEAR_DK = "multilinear-dk"   # dk raises MissingJetTerm
NONSQUARE_EXIT = "nonsquare-exit"   # custom exits 2, README says 1


@dataclass(frozen=True)
class Key:
    """What an op computes; traced output is grouped by it."""

    route: str
    n: int
    alpha: tuple[int, ...] = ()
    f: str = ""
    tag: str = ""

    def label(self) -> str:
        parts = [self.route, f"n={self.n}"]
        if self.alpha:
            parts.append("alpha=" + ",".join(map(str, self.alpha)))
        if self.f:
            parts.append(f"f={self.f}")
        if self.tag:
            parts.append(self.tag)
        return " ".join(parts)


@dataclass
class Item:
    key: Key
    group: str                      # items of one group share inputs and reference
    inputs: dict[str, Any] = field(default_factory=dict)
    expect: str | None = None       # known defect this input hits, if any


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    err: float | None = None        # relative error of an exact-route op


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), salt])


def rand_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complex Gaussian matrix with spectral radius near 1."""
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0 * n)


def rand_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rand_complex(rng, n)
    return 0.5 * (m + m.conj().T)


def rand_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rand_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sub_indices(alpha: tuple[int, ...]):
    return itertools.product(*(range(v + 1) for v in alpha))


def _finite(x: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(x)))


def _check_matrix(out: np.ndarray, ref: np.ndarray, tol: float, exact: bool) -> Verdict:
    if not _finite(out):
        return Verdict(False, "non-finite entries")
    err = oracle.rel_error(out, ref)
    if err > tol:
        return Verdict(False, f"error {err:.2e} > {tol:.0e}")
    return Verdict(True, err=err if exact else None)


class Workload:
    name = ""
    oracle_note = ""
    warmup = 0  # index of the item whose op warms up the process
    calibration = "py"  # calibrate kernel that matches where op time goes

    def generate(self, seed: int, lib=None, out_dir: Path | None = None) -> list[Item]:
        raise NotImplementedError

    def reference(self, item: Item) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def run(self, item: Item, ctx) -> Any:
        raise NotImplementedError

    def check(self, item: Item, out: Any, ref: dict[str, np.ndarray]) -> Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------

class ExactJets(Workload):
    name = "exact-jets"
    oracle_note = ("scipy expm_frechet on a half-size embedding via Faa di Bruno (benchmark code); "
                   "shares the block-triangular identity with blocktri, not its code")
    ALPHAS = ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0))
    calibration = "blas"

    def generate(self, seed, lib=None, out_dir=None):
        rng = _rng(seed, 1)
        items = []
        for n, fnames in ((20, ("exp", "cos")), (40, ("exp", "cos")), (80, ("exp",))):
            for fname in fnames:
                for alpha in self.ALPHAS:
                    terms = {t: rand_complex(rng, n) for t in sub_indices(alpha)}
                    group = f"n{n}-{fname}-{alpha[0]}{alpha[1]}"
                    routes = ["blocktri", "frechet_sum"]
                    if n >= 40 and sum(alpha) <= 2:
                        routes += ["cs", "hybrid", "fd"] if sum(alpha) == 2 else ["cs", "fd"]
                    jet = lib.PathJet(terms=terms, order=sum(alpha)) if lib else None
                    for route in routes:
                        items.append(Item(Key(route, n, alpha, fname), group,
                                          {"terms": terms, "jet": jet}))
        self.warmup = next(i for i, it in enumerate(items)
                           if it.key == Key("blocktri", 20, (1, 1), "exp"))
        return items

    def reference(self, item):
        return {"d": oracle.path_partial(item.key.f, item.inputs["terms"], item.key.alpha)}

    def run(self, item, ctx):
        lib, k, jet = ctx.lib, item.key, item.inputs["jet"]
        f = ctx.mf(k.f)
        first = sum(k.alpha) == 1
        if k.route == "blocktri":
            return lib.partial_via_blocktri(f, jet, k.alpha)
        if k.route == "frechet_sum":
            return lib.partial_via_frechet_sum(f, jet, k.alpha)
        if k.route == "cs":
            if first:
                return lib.cs_frechet_1(f, jet.base, jet.term(k.alpha), H_FIRST)
            return lib.cs_partial_2(f, jet, k.alpha, H_SECOND)
        if k.route == "hybrid":
            return lib.hybrid_partial_2(f, jet, k.alpha, H_SECOND)
        if first:
            return lib.central_fd_1(f, jet.base, jet.term(k.alpha), H_FD)
        return lib.central_fd_2_mixed(f, jet, H_FD, k.alpha)

    def check(self, item, out, ref):
        tol = TOL[item.key.route]
        return _check_matrix(out, ref["d"], tol, tol == EXACT_TOL)


# ---------------------------------------------------------------------------

CLUSTER_GAPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1.5e-8, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)


class SpectralDk(Workload):
    name = "spectral-dk"
    oracle_note = "partial_via_blocktri (independent dense-embedding route) computed before the run"

    def generate(self, seed, lib=None, out_dir=None):
        rng = _rng(seed, 2)
        items = []

        def add(n, alpha, fname, base, terms, tag="", expect=None, multilinear=False):
            terms = dict(terms)
            terms[(0, 0)] = base
            group = f"{len(items)}"
            jet = None
            if lib:
                if multilinear:
                    jet = lib.jet_from_directions(base, [terms[(1, 0)], terms[(0, 1)]])
                else:
                    jet = lib.PathJet(terms=terms, order=sum(alpha))
            items.append(Item(Key("dk", n, alpha, fname, tag), group,
                              {"terms": terms, "jet": jet}, expect))

        def full_terms(n, alpha):
            return {t: rand_complex(rng, n) for t in sub_indices(alpha) if any(t)}

        for n, alphas in ((20, ExactJets.ALPHAS), (40, ((1, 0), (1, 1), (2, 0)))):
            for fname in ("exp", "cos"):
                for alpha in alphas:
                    add(n, alpha, fname, rand_hermitian(rng, n), full_terms(n, alpha))
        # eight order-3 requests at n=20 make one cost tier, so the tail
        # sample falls inside it, away from its edges, whether a run makes
        # three passes or five
        for alpha, fname in (((1, 2), "exp"), ((1, 2), "cos"), ((0, 3), "exp"), ((0, 3), "cos")):
            add(20, alpha, fname, rand_hermitian(rng, 20), full_terms(20, alpha))
        add(40, (2, 1), "exp", rand_hermitian(rng, 40), full_terms(40, (2, 1)))
        self.warmup = 1
        n = 20
        for gap in CLUSTER_GAPS:
            lam = np.sort(rng.uniform(-1.0, 1.0, n))
            lam[n // 2 + 1] = lam[n // 2] + gap
            q = rand_unitary(rng, n)
            base = (q * lam) @ q.conj().T
            base = 0.5 * (base + base.conj().T)
            add(n, (1, 1), "exp", base, full_terms(n, (1, 1)), f"cluster={gap:.1e}", NEAR_CONFLUENT)
        for alpha, fname in (((1, 0), "cos"), ((1, 1), "exp"), ((1, 1), "cos"), ((2, 0), "exp")):
            dirs = {(1, 0): rand_hermitian(rng, n), (0, 1): rand_hermitian(rng, n)}
            expect = MULTILINEAR_DK if sum(alpha) > 1 else None
            add(n, alpha, fname, rand_hermitian(rng, n), dirs, "multilinear", expect, True)
        return items

    def reference(self, item):
        import matderiv

        jet = item.inputs["jet"]
        if jet is None:
            raise RuntimeError("reference needs the generated jet")
        f = matderiv.get_function(item.key.f)
        return {"d": matderiv.partial_via_blocktri(f, jet, item.key.alpha)}

    def run(self, item, ctx):
        lib = ctx.lib
        jet = item.inputs["jet"]
        d = lib.hermitian_eig(jet.base)
        jet_eigen = lib.jet_to_eigenbasis(d, jet.terms)
        return lib.dk_general(ctx.sf(item.key.f), d, jet_eigen, item.key.alpha)

    def check(self, item, out, ref):
        return _check_matrix(out, ref["d"], EXACT_TOL, True)


# ---------------------------------------------------------------------------

class DensityResponse(Workload):
    name = "density-response"
    oracle_note = ("projector identities against a numpy-eigh projector (exact class) plus "
                   "central differences of numpy-eigh projectors (fd class)")
    calibration = "blas"
    N = 160
    PERTURBATIONS = 6
    PENCILS = 3
    MU = 0.0

    def generate(self, seed, lib=None, out_dir=None):
        rng = _rng(seed, 3)
        n, k = self.N, self.PERTURBATIONS
        items = []
        for p in range(self.PENCILS):
            # ground state 0.5 below the rest; a 0.4 gap around mu = 0
            lam = np.concatenate([[-1.5], rng.uniform(-1.0, -0.2, n // 2 - 1),
                                  rng.uniform(0.2, 1.0, n - n // 2)])
            q = rand_unitary(rng, n)
            h0 = (q * lam) @ q.conj().T
            h0 = 0.5 * (h0 + h0.conj().T)
            hs = [self._unit_hermitian(rng, n) for _ in range(k)]
            cross = {pair: self._unit_hermitian(rng, n)
                     for pair in itertools.combinations(range(k), 2)}
            items.append(Item(Key("qperturb", n, (1,) * k, "step", f"pencil={p}"), str(p),
                              {"h0": h0, "hs": hs, "cross": cross}))
        return items

    @staticmethod
    def _unit_hermitian(rng, n):
        h = rand_hermitian(rng, n)
        return h / oracle.spectral_norm(h)

    def reference(self, item):
        h0, hs, cross, mu = item.inputs["h0"], item.inputs["hs"], item.inputs["cross"], self.MU
        ref = {"p0": oracle.projector(h0, mu)}
        for b, hb in enumerate(hs):
            ref[f"p1_{b}"] = oracle.density_fd_1(h0, hb, mu, 1e-5)
        for (b, g), hx in cross.items():
            ref[f"p2_{b}{g}"] = oracle.density_fd_2(h0, hs[b], hs[g], hx, mu, 1e-4)
        ref["q1"], ref["q2"] = oracle.ground_fd(h0, hs[0], 3e-3)
        return ref

    def run(self, item, ctx):
        lib, mu = ctx.lib, self.MU
        hs, cross = item.inputs["hs"], item.inputs["cross"]
        d = lib.hermitian_eig(item.inputs["h0"])
        out = {"p0": lib.density_matrix(d, mu)}
        for b, hb in enumerate(hs):
            out[f"p1_{b}"] = lib.density_deriv_1(d, hb, mu)
        for (b, g), hx in cross.items():
            out[f"p2_{b}{g}"] = lib.density_deriv_2(d, hs[b], hs[g], hx, mu)
        out["q1"] = lib.eigvec_correction_1(d, hs[0])
        out["q2"] = lib.eigvec_correction_2(d, hs[0])
        return out

    def check(self, item, out, ref):
        """Exact class: projector identities against a numpy-eigh projector.
        fd class: agreement with the central differences."""
        if not all(_finite(v) for v in out.values()):
            return Verdict(False, "non-finite entries")
        p0 = ref["p0"]
        exact = [oracle.rel_error(out["p0"], p0)]
        fd = []
        for b in range(len(item.inputs["hs"])):
            p1 = out[f"p1_{b}"]
            exact.append(oracle.rel_error(p0 @ p1 + p1 @ p0, p1))
            exact.append(oracle.rel_error(p1.conj().T, p1))
            fd.append(oracle.rel_error(p1, ref[f"p1_{b}"]))
        for b, g in item.inputs["cross"]:
            p2, p1b, p1g = out[f"p2_{b}{g}"], out[f"p1_{b}"], out[f"p1_{g}"]
            exact.append(oracle.rel_error(p0 @ p2 + p2 @ p0 + p1b @ p1g + p1g @ p1b, p2))
            fd.append(oracle.rel_error(p2, ref[f"p2_{b}{g}"]))
        q0 = np.linalg.eigh(item.inputs["h0"])[1][:, 0]
        q1_orth = float(abs(q0.conj() @ out["q1"]))
        q1_fd = float(np.linalg.norm(out["q1"] - ref["q1"]))
        q2_fd = float(np.linalg.norm(out["q2"] - ref["q2"]))
        worst = max(exact)
        if worst > EXACT_TOL:
            return Verdict(False, f"identity residual {worst:.2e} > {EXACT_TOL:.0e}")
        if max(fd) > FD_TOL:
            return Verdict(False, f"fd disagreement {max(fd):.2e} > {FD_TOL:.0e}")
        # eigenvector bounds from acceptance criterion 09
        if q1_orth > 1e-10 or q1_fd > 1e-6 or q2_fd > 1e-4:
            return Verdict(False, f"eigvec checks {q1_orth:.1e} {q1_fd:.1e} {q2_fd:.1e}")
        return Verdict(True, err=worst)


# ---------------------------------------------------------------------------

def dumps_matrix(a: np.ndarray) -> str:
    """Matrix text in the README's format, written by the benchmark itself."""
    rows, cols = a.shape
    lines = [f"{rows} {cols}"]
    for row in a:
        lines.append(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    tokens = text.split()
    rows, cols = int(tokens[0]), int(tokens[1])
    vals = np.array([float(t) for t in tokens[2:]], dtype=np.float64)
    if vals.size != 2 * rows * cols:
        raise ValueError(f"{vals.size} numbers for a {rows} x {cols} matrix")
    return (vals[0::2] + 1j * vals[1::2]).reshape(rows, cols)


SWEEP_HEADER = "h,method,rel_error,runtime_micros"
CHECK_HEADER = "check,value,threshold,status"
_FLOAT = re.compile(r"^-?(\d+(\.\d*)?(e[-+]?\d+)?|inf|nan)$")


class CliSweeps(Workload):
    name = "cli-sweeps"
    oracle_note = ("custom: Faa di Bruno over scipy expm_frechet; fig1/fig2/density-demo: no "
                   "independent oracle, checked for exit code, CSV shape, finite values, "
                   "passing residual rows and byte-identical repeats")
    calibration = "spawn"
    CUSTOM_N = 40

    def generate(self, seed, lib=None, out_dir=None):
        rng = _rng(seed, 4)
        n = self.CUSTOM_N
        terms = {t: rand_complex(rng, n) for t in sub_indices((1, 1))}
        terms[(0, 0)] = rand_hermitian(rng, n)
        nonsquare = rand_complex(rng, n)[:, : n - 1]
        jet_args: list[str] = []
        bad_args: list[str] = []
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            for t, m in terms.items():
                path = out_dir / f"jet{t[0]}{t[1]}.txt"
                path.write_text(dumps_matrix(m))
                jet_args += ["--jet", f"{t[0]},{t[1]}={path}"]
            path = out_dir / "nonsquare.txt"
            path.write_text(dumps_matrix(nonsquare))
            bad_args = ["--jet", f"0,0={path}", "--jet", f"1,0={out_dir / 'jet10.txt'}"]
        common = ["--deterministic", "--seed", str(seed)]
        routes = ["--route", "blocktri", "--route", "frechet_sum", "--route", "dk", "--route", "cs"]
        ops = [
            ("fig1-real", 1, ["fig1-real"], 0, None),
            ("fig1-complex", 1, ["fig1-complex"], 0, None),
            ("fig2", 3, ["fig2"], 0, None),
            ("fig2", 20, ["fig2", "--n", "20"], 0, None),
            ("density-demo", 6, ["density-demo"], 0, None),
            ("density-demo", 20, ["density-demo", "--n", "20"], 0, None),
            ("custom", n, ["custom", *jet_args, "--alpha", "1,1", *routes], 0, None),
            ("custom", n, ["custom", *bad_args, "--alpha", "1,0"], 1, NONSQUARE_EXIT),
        ]
        items = []
        for i, (cmd, size, argv, code, expect) in enumerate(ops):
            tag = "nonsquare" if expect else ""
            alpha = (1, 1) if cmd == "custom" and not expect else ()
            items.append(Item(Key(cmd, size, alpha, "exp" if alpha else "", tag), str(i),
                              {"argv": argv[:1] + common + argv[1:], "exit": code,
                               "terms": terms}, expect))
        self.warmup = 0
        return items

    def reference(self, item):
        if item.key.route == "custom" and not item.expect:
            return {"d": oracle.path_partial("exp", item.inputs["terms"], (1, 1))}
        return {}

    def run(self, item, ctx):
        return ctx.cli(item.inputs["argv"])

    def check(self, item, out, ref):
        code, stdout = out
        if code != item.inputs["exit"]:
            return Verdict(False, f"exit code {code}, README says {item.inputs['exit']}")
        if code != 0:
            return Verdict(True)
        text = stdout.decode()
        route = item.key.route
        if route == "custom":
            try:
                d = loads_matrix(text)
            except (ValueError, IndexError) as exc:
                return Verdict(False, f"unparsable matrix: {exc}")
            return _check_matrix(d, ref["d"], EXACT_TOL, True)
        lines = text.splitlines()
        header, rows = lines[0], [ln.split(",") for ln in lines[1:]]
        if route == "density-demo":
            if header != CHECK_HEADER or len(rows) != 10:
                return Verdict(False, "density-demo CSV shape")
            if any(r[3] != "pass" or not _FLOAT.match(r[1]) for r in rows):
                return Verdict(False, "density-demo residual row not passing")
            return Verdict(True)
        points = 25 if route.startswith("fig1") else 15
        if header != SWEEP_HEADER or len(rows) != 4 * points:
            return Verdict(False, f"{route} CSV shape")
        for r in rows:
            if len(r) != 4 or not all(_FLOAT.match(v) for v in (r[0], r[2], r[3])):
                return Verdict(False, f"{route} CSV row {r}")
            if not np.isfinite(float(r[2])):
                return Verdict(False, f"{route} non-finite error for {r[1]}")
            if r[3] != "0.0":
                return Verdict(False, f"{route} runtime column not zeroed")
        return Verdict(True)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    w.name: w for w in (ExactJets, SpectralDk, DensityResponse, CliSweeps)
}
