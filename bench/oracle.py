"""Reference values and error metrics that share no code with matderiv.

Relative errors use numpy's SVD-based spectral norm. Exact path
derivatives come from the multivariate Faa di Bruno sum over set
partitions of the requested directions, with each k-th Frechet derivative
of exp taken from ``scipy.linalg.expm_frechet`` (Al-Mohy & Higham's
algorithm) applied to a (k-1)-level block embedding built here. The
embedding is half the size of the one the ``blocktri`` route evaluates
and the evaluation is a different algorithm, so the two do not share
numerics; they do share the block-triangular identity itself. ``cos``
goes through ``(exp(iA) + exp(-iA)) / 2``.

Density-matrix references are projectors and central differences built
on ``numpy.linalg.eigh`` directly.
"""
from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np
from scipy.linalg import expm_frechet


def spectral_norm(x: np.ndarray) -> float:
    return float(np.linalg.norm(x, 2))


def rel_error(x: np.ndarray, ref: np.ndarray) -> float:
    """Spectral-norm error of ``x`` relative to ``ref`` (absolute if ref is 0)."""
    denom = spectral_norm(ref)
    diff = spectral_norm(np.asarray(x) - ref)
    return diff / denom if denom > 0.0 else diff


def set_partitions(labels: Sequence[int]) -> Iterator[list[tuple[int, ...]]]:
    """Every partition of ``labels`` into non-empty blocks, each once."""
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for part in set_partitions(rest):
        yield [(first,)] + part
        for i in range(len(part)):
            yield part[:i] + [(first,) + part[i]] + part[i + 1:]


def exp_frechet_k(a: np.ndarray, es: Sequence[np.ndarray]) -> np.ndarray:
    """k-th Frechet derivative of exp at ``a`` in directions ``es``.

    Level j of the embedding is ``[[X, I (x) E_j], [0, X]]``; the derivative
    of exp at the last level along ``I (x) E_k`` carries the answer in its
    top-right n x n block.
    """
    n = a.shape[0]
    x = a
    for e in es[:-1]:
        reps = x.shape[0] // n
        x = np.block([[x, np.kron(np.eye(reps), e)], [np.zeros_like(x), x]])
    reps = x.shape[0] // n
    big = expm_frechet(x, np.kron(np.eye(reps), es[-1]), compute_expm=False)
    return big[:n, -n:]


def frechet_k(fname: str, a: np.ndarray, es: Sequence[np.ndarray]) -> np.ndarray:
    if fname == "exp":
        return exp_frechet_k(a, es)
    if fname == "cos":
        plus = exp_frechet_k(1j * a, [1j * e for e in es])
        minus = exp_frechet_k(-1j * a, [-1j * e for e in es])
        return 0.5 * (plus + minus)
    raise ValueError(f"no reference for f = {fname!r}")


def path_partial(
    fname: str, terms: Mapping[tuple[int, ...], np.ndarray], alpha: Sequence[int]
) -> np.ndarray:
    """Mixed partial d^alpha f(A(x)) from the jet's partial derivatives.

    Absent jet terms are zero, which is the multilinear-jet convention.
    """
    nvars = len(alpha)
    var_of = [v for v, count in enumerate(alpha) for _ in range(count)]
    a0 = terms[(0,) * nvars]
    total = np.zeros_like(a0, dtype=np.complex128)
    for part in set_partitions(list(range(len(var_of)))):
        idx = [tuple(sum(var_of[l] == v for l in block) for v in range(nvars)) for block in part]
        if all(t in terms for t in idx):
            total += frechet_k(fname, a0, [terms[t] for t in idx])
    return total


def projector(h: np.ndarray, mu: float) -> np.ndarray:
    """Spectral projector onto eigenvalues of ``h`` below ``mu``."""
    w, v = np.linalg.eigh(h)
    occ = v[:, w < mu]
    return occ @ occ.conj().T


def density_fd_1(h0, hb, mu: float, eps: float) -> np.ndarray:
    """Central difference of the projector along ``hb``: error O(eps^2)."""
    return (projector(h0 + eps * hb, mu) - projector(h0 - eps * hb, mu)) / (2.0 * eps)


def density_fd_2(h0, hb, hg, hx, mu: float, eps: float) -> np.ndarray:
    """Four-point stencil for the mixed second derivative: error O(eps^2)."""
    e2 = eps * eps
    pp = projector(h0 + eps * hb + eps * hg + e2 * hx, mu)
    pm = projector(h0 + eps * hb - eps * hg - e2 * hx, mu)
    mp = projector(h0 - eps * hb + eps * hg - e2 * hx, mu)
    mm = projector(h0 - eps * hb - eps * hg + e2 * hx, mu)
    return (pp - pm - mp + mm) / (4.0 * e2)


def ground_fd(h0, h1, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of P(eps) q0 for the pencil h0 + eps h1."""
    q0 = np.linalg.eigh(h0)[1][:, 0]

    def proj(e: float) -> np.ndarray:
        v = np.linalg.eigh(h0 + e * h1)[1][:, 0]
        return v * (v.conj() @ q0)

    def d1(e: float) -> np.ndarray:
        return (proj(e) - proj(-e)) / (2.0 * e)

    def d2(e: float) -> np.ndarray:
        return (proj(e) - 2.0 * proj(0.0) + proj(-e)) / (e * e)

    q1 = (4.0 * d1(eps / 2.0) - d1(eps)) / 3.0
    q2 = (4.0 * d2(eps / 2.0) - d2(eps)) / 3.0
    return q1, q2
