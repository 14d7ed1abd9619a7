"""Derivatives of spectral projectors and eigenvectors of Hermitian pencils.

The density matrix P = theta(mu - H) is a matrix function of H with a step
scalar function. Along a path with H(x) = sum_t K_t x^t, K_t = H_t / t!
(H_t the partial derivative of H with multi-index t), write
P(x) = sum_t P_t x^t. In the eigenbasis of H_0, with ``o`` the occupied
levels (below mu) and ``w`` the virtual ones, the McWeeny /
Niklasson-Challacombe recursion fixes each P_t from those of lower total
degree (McWeeny, Phys. Rev. 126, 1028 (1962); Niklasson & Challacombe,
Phys. Rev. Lett. 92, 193001 (2004)):

- [H, P] = 0 gives (P_t)_ow = -C_ow / (lambda_o - lambda_w), where
  C = sum_{0 < s <= t} [K_s, P_{t-s}];
- P^2 = P gives (P_t)_oo = -S_oo and (P_t)_ww = S_ww, where
  S = sum_{0 < s < t} P_s P_{t-s};
- every P_t is Hermitian, so the wo block is the adjoint of the ow block
  and the two orders (s, t - s), (t - s, s) of a pair in S are X and X^H:
  each unordered pair is formed once.

The derivative is d^alpha P = alpha! P_alpha (``density_response``). This is
the step-function case of the divided-difference formula, without its
n^(|alpha|+1) tensor. Degree-1 coefficients are block off-diagonal and are
kept without oo and ww blocks. The top term K_alpha (|alpha| >= 2) enters
only as -(K_alpha)_ow, so only that block is rotated. Every other term is
rotated with ``SpectralDecomp.to_eigenbasis``, which rotates each distinct
array once per decomposition, however many calls share it.

Eigenvector corrections for a simple lowest eigenvalue are k! Q (P_k)[:, 0]
with mu in the lowest gap: derivatives of the rank-one projector applied to
the unperturbed vector, which keeps everything free of phase choices.
"""
from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateGroundState, DimensionMismatch, DomainError, EmptyIndex, TooCloseToMu
from .funcs import ScalarFunction
from .linalg import SpectralDecomp, require_hermitian
from .multiindex import MultiIndex, as_index, factorial, iter_sub_indices, order

GAP_MIN = 1e-8

# (oo, ow, ww) blocks of a coefficient in the eigenbasis; oo and ww are None at degree 1
Blocks = tuple[np.ndarray | None, np.ndarray, np.ndarray | None]


def step_function(mu: float) -> ScalarFunction:
    """Indicator of (-inf, mu) as a ScalarFunction.

    Derivatives of positive order are zero away from mu and undefined at
    mu itself (DomainError); the divided-difference code never needs them
    at mu when the spectrum respects the protection band.
    """

    def ev(x: complex) -> complex:
        return 1.0 + 0.0j if complex(x).real < mu else 0.0 + 0.0j

    def dv(x: complex, order: int) -> complex:
        if complex(x).real == mu:
            raise DomainError(f"step function is not differentiable at mu = {mu}")
        return 0.0 + 0.0j

    return ScalarFunction(name=f"step(mu={mu})", eval_fn=ev, deriv_fn=dv)


def density_matrix(d: SpectralDecomp, mu: float) -> np.ndarray:
    """Spectral projector onto eigenvalues below mu."""
    occ = (d.eigenvalues < mu).astype(np.complex128)
    q = d.vectors
    return (q * occ) @ q.conj().T


def _occupied(lam: np.ndarray, mu: float) -> int:
    """Number of levels below mu; a level within GAP_MIN / 2 of mu raises TooCloseToMu."""
    dist = np.abs(lam - mu)
    if np.any(dist <= 0.5 * GAP_MIN):
        raise TooCloseToMu(
            f"eigenvalue within {float(dist.min()):.3e} of mu = {mu}; "
            f"protection band is {0.5 * GAP_MIN:.1e}"
        )
    return int(np.sum(lam < mu))


def _below(s: MultiIndex, t: MultiIndex) -> bool:
    return s != t and all(a <= b for a, b in zip(s, t))


def _minus(t: MultiIndex, s: MultiIndex) -> MultiIndex:
    return tuple(a - b for a, b in zip(t, s))


def _recursion(d: SpectralDecomp, terms: Mapping[MultiIndex, object], alpha: MultiIndex,
               mu: float) -> Blocks:
    """Blocks of P_alpha. ``terms`` maps nonzero indices to H_t; absent ones are zero."""
    indices = sorted((t for t in iter_sub_indices(alpha) if any(t)), key=order)
    for t in indices:  # directions are checked before the band
        if terms.get(t) is not None:
            require_hermitian(terms[t])
    lam = d.eigenvalues
    ne = _occupied(lam, mu)
    nw = lam.shape[0] - ne
    o, w = slice(0, ne), slice(ne, None)
    inv_gap = 1.0 / (lam[o, None] - lam[None, w])
    rotated: dict[MultiIndex, tuple[np.ndarray, np.ndarray, np.ndarray] | None] = {}

    def k_blocks(s: MultiIndex):
        if s not in rotated:
            h = terms.get(s)
            if h is None:
                rotated[s] = None
            else:
                u = d.to_eigenbasis(h) / factorial(s)
                rotated[s] = (u[o, o], u[o, w], u[w, w])
        return rotated[s]

    p: dict[MultiIndex, Blocks] = {}
    for t in indices:
        lower = [s for s in indices if _below(s, t)]
        # [K_t, P_0]_ow = -(K_t)_ow; the top term needs no other block
        if t == alpha and order(t) > 1:
            h = terms.get(t)
            top = None if h is None else d.to_eigenbasis_block(h, o, w) / factorial(t)
        else:
            kt = k_blocks(t)
            top = None if kt is None else kt[1]
        c = np.zeros((ne, nw), dtype=np.complex128) if top is None else -top
        for s in lower:
            ks = k_blocks(s)
            if ks is None:
                continue
            koo, kow, kww = ks
            roo, row, rww = p[_minus(t, s)]
            c += koo @ row
            c -= row @ kww
            if rww is not None:
                c += kow @ rww
                c -= roo @ kow
        ow = -c * inv_gap
        if order(t) == 1:
            p[t] = (None, ow, None)
            continue
        yoo = np.zeros((ne, ne), dtype=np.complex128)
        yww = np.zeros((nw, nw), dtype=np.complex128)
        for s in lower:
            r = _minus(t, s)
            if s > r:  # (r, s) gives the adjoint
                continue
            soo, sow, sww = p[s]
            roo, row, rww = p[r]
            xoo = sow @ row.conj().T
            xww = sow.conj().T @ row
            if soo is not None and roo is not None:
                xoo += soo @ roo
                xww += sww @ rww
            weight = 0.5 if s == r else 1.0
            yoo += weight * xoo
            yww += weight * xww
        p[t] = (-(yoo + yoo.conj().T), ow, yww + yww.conj().T)
    return p[alpha]


def _density(d: SpectralDecomp, terms: Mapping[MultiIndex, object], alpha: MultiIndex,
             mu: float) -> np.ndarray:
    oo, ow, ww = _recursion(d, terms, alpha, mu)
    n, ne = d.dim, ow.shape[0]
    full = np.zeros((n, n), dtype=np.complex128)
    full[:ne, ne:] = ow
    full[ne:, :ne] = ow.conj().T
    if oo is not None:
        full[:ne, :ne] = oo
        full[ne:, ne:] = ww
    return factorial(alpha) * d.from_eigenbasis(full)


def density_response(
    d: SpectralDecomp,
    terms: Mapping[Sequence[int], object],
    alpha: Sequence[int],
    mu: float,
) -> np.ndarray:
    """Mixed partial derivative d^alpha P of the density matrix, at any order.

    ``terms`` maps nonzero multi-indices t to the partial derivatives H_t
    of the Hamiltonian, in the original basis, at the point where ``d``
    decomposes H. Only terms with t <= alpha componentwise are read, and
    each must be Hermitian; absent ones are zero. ``d`` keeps the rotation
    of every term below alpha for later calls. Levels within GAP_MIN / 2
    of mu raise TooCloseToMu.
    """
    alpha = as_index(alpha)
    if order(alpha) == 0:
        raise EmptyIndex("derivative request must have order >= 1")
    keyed = {}
    for t, h in terms.items():
        t = as_index(t, "term")
        if len(t) != len(alpha):
            raise DimensionMismatch(f"term {t} has {len(t)} variables, alpha has {len(alpha)}")
        keyed[t] = h
    return _density(d, keyed, alpha, mu)


def density_deriv_1(d: SpectralDecomp, h_alpha, mu: float) -> np.ndarray:
    """First parameter derivative of the density matrix along ``h_alpha``,
    the Hamiltonian's derivative in the original basis."""
    return _density(d, {(1,): h_alpha}, (1,), mu)


def density_deriv_2(
    d: SpectralDecomp,
    h_beta,
    h_gamma,
    h_alpha,
    mu: float,
) -> np.ndarray:
    """Second mixed parameter derivative of the density matrix.

    ``h_beta`` and ``h_gamma`` are the first derivatives of H along the two
    split directions, ``h_alpha`` the second (cross) derivative, all in the
    original basis. With ne occupied levels out of n, a call costs the
    rotation of the occupied-virtual block of ``h_alpha``
    (n^2 min(ne, n - ne) + ne (n - ne) n multiply-adds), 3 ne (n - ne) n
    multiply-adds of block products and the two n x n products that
    rotate the result out, plus the rotation of each of ``h_beta`` and
    ``h_gamma`` that ``d`` has not rotated before.
    """
    return _density(d, {(1, 0): h_beta, (0, 1): h_gamma, (1, 1): h_alpha}, (1, 1), mu)


def _ground_state_response(d: SpectralDecomp, h1, k: int) -> np.ndarray:
    """k-th derivative of P(eps) q_0 along the linear pencil H + eps h1."""
    require_hermitian(h1)  # before the gap check
    lam = d.eigenvalues
    if d.dim == 1:  # no excited state to mix in: the response is zero
        mu = float(lam[0]) + 1.0
    elif lam[1] - lam[0] <= GAP_MIN:
        raise DegenerateGroundState(
            f"lowest gap {lam[1] - lam[0]:.3e} is within GAP_MIN = {GAP_MIN:.1e}"
        )
    else:
        mu = float(lam[0] + lam[1]) / 2.0
    oo, ow, _ = _recursion(d, {(1,): h1}, (k,), mu)
    column = np.empty(d.dim, dtype=np.complex128)
    column[0] = 0.0 if oo is None else oo[0, 0]
    column[1:] = ow[0].conj()
    return math.factorial(k) * (d.vectors @ column)


def eigvec_correction_1(d: SpectralDecomp, h1) -> np.ndarray:
    """First derivative of P(eps) q1: the ground-state vector's response.

    Differentiates the projected vector rather than a normalized eigenvector,
    which removes the phase ambiguity; the result coincides with the
    phase-fixed eigenvector derivative.
    """
    return _ground_state_response(d, h1, 1)


def eigvec_correction_2(d: SpectralDecomp, h1) -> np.ndarray:
    """Second derivative of P(eps) q1 for a linear pencil H + eps H1.

    Along q1 the result dips by the squared first-order weight; across the
    excited states it mixes second-order channels with a factor 2 because
    this is a derivative, not a series coefficient.
    """
    return _ground_state_response(d, h1, 2)
